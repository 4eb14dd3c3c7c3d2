"""The pure kernels against brute-force oracles, and the compiled ones against the pure ones.

The compiled kernels come from the kernels_c fixture (conftest.py): the
installed extension, or else the hand-written _kernels_c.c built for the session.
"""

import inspect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chromarank import PermGroup, _kernels_py, abelian, kernels

from conftest import (
    CORPUS_BUILDERS,
    compile_kernels_c,
    o_centralizer,
    o_close,
    o_compose,
    o_conjugate,
)

raw_perm = st.integers(min_value=1, max_value=9).flatmap(
    lambda d: st.permutations(range(d)).map(tuple)
)


def random_gens(seed, degree, count):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(degree), degree)) for _ in range(count)]


# -- reference orbit loops: the per-point implementation the kernels replaced --


def loop_conjugate(x, g):
    out = [0] * len(x)
    for j, gj in enumerate(g):
        out[gj] = g[x[j]]
    return tuple(out)


def loop_conjugacy_orbit(x, gens):
    orbit = {x}
    queue = [x]
    for e in queue:
        for g in gens:
            y = loop_conjugate(e, g)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return queue


def loop_tuple_orbit(tup, gens):
    start = tuple(tup)
    orbit = {start}
    queue = [start]
    for e in queue:
        for g in gens:
            y = tuple(loop_conjugate(c, g) for c in e)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return queue


def loop_inverse(g):
    return tuple(sorted(range(len(g)), key=g.__getitem__))


def small_groups():
    """Raw generators and sorted elements of the corpus, the trivial group of degree 1,
    and a few random 2-generator groups of small degree."""
    groups = [list(build()._raw) for build in CORPUS_BUILDERS.values()]
    groups.append(list(PermGroup.trivial(1)._raw))
    groups += [random_gens(seed, degree, 2) for seed, degree in ((1, 2), (2, 4), (3, 6))]
    return [(gens, o_close(gens)) for gens in groups]


# -- pure kernels against the oracles -----------------------------------------


def test_selected_backend_exposes_contract():
    assert kernels.BACKEND in ("pure", "compiled")
    assert kernels.compose((1, 0), (0, 1)) == (1, 0)


def test_backend_choice_rejects_undocumented_values():
    src = Path(kernels.__file__).resolve().parents[1]
    env = {**os.environ, "CHROMARANK_KERNELS": "py", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", "import chromarank"], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "ImportError: unknown CHROMARANK_KERNELS value: 'py'" in proc.stderr


def test_compose_oracle_spot():
    a = (1, 2, 0)
    b = (1, 0, 2)
    # a then b: 0 -> 1 -> 0, 1 -> 2 -> 2, 2 -> 0 -> 1
    assert _kernels_py.compose(a, b) == o_compose(a, b) == (0, 2, 1)


def test_products_match_oracles_from_degree_1():
    # Degree 1 is where itemgetter of one index returns a bare int.
    for degree in (1, 2, 3, 5, 8, 13, 24, 40):
        perms = random_gens(degree, degree, 6) + [tuple(range(degree))]
        for a in perms:
            a2 = o_compose(a, a)
            for b in perms + [a2]:
                ab = _kernels_py.compose(a, b)
                assert type(ab) is tuple and ab == o_compose(a, b)
                assert _kernels_py.conjugate(a, b) == o_conjugate(a, b)
                assert _kernels_py.commutes(a, b) == (o_compose(a, b) == o_compose(b, a))
            assert _kernels_py.commutes(a, a2)


def assert_orbits_match_loop_reference(impl):
    """impl's conjugacy_orbit, and its tuple_orbit on tuples of element
    indices under conjugation tabulated on the indices, against the loop
    references, in discovery order."""
    for gens, elems in small_groups():
        inverses = [loop_inverse(g) for g in gens]
        index = {e: i for i, e in enumerate(elems)}
        perms = [tuple(index[loop_conjugate(e, g)] for e in elems) for g in gens]
        rng = random.Random(len(elems))
        for x in rng.sample(elems, min(4, len(elems))):
            y = rng.choice(elems)
            assert impl.conjugacy_orbit(x, gens, inverses) == loop_conjugacy_orbit(x, gens)
            for tup in ((), (x,), (x, y), (y, x, y)):
                got = impl.tuple_orbit(tuple(index[c] for c in tup), perms)
                want = [tuple(index[c] for c in t) for t in loop_tuple_orbit(tup, gens)]
                assert got == want, (tup, gens)
    # The empty tuple is its own orbit; so is a point that every perm fixes.
    assert impl.tuple_orbit((), [(1, 0), (0, 1)]) == [()]
    assert impl.tuple_orbit((0,), [(0,)]) == [(0,)]
    assert impl.tuple_orbit((2, 0), [(1, 2, 0)]) == [(2, 0), (0, 1), (1, 2)]


def test_orbits_match_loop_reference_in_discovery_order():
    assert_orbits_match_loop_reference(_kernels_py)


def test_conjugacy_orbit_refuses_fewer_inverses_than_generators(kernels_c):
    # (0 1) under S_3's generators (0 1) and (1 2) has an orbit of three;
    # under the first alone, of one.  Neither backend drops the generator
    # that has no inverse: both raise ValueError.
    for impl in (_kernels_py, kernels_c):
        with pytest.raises(ValueError):
            impl.conjugacy_orbit((1, 0, 2), [(1, 0, 2), (0, 2, 1)], [(1, 0, 2)])


def test_centralizer_filter_matches_oracle():
    for gens, elems in small_groups():
        rng = random.Random(len(elems))
        for targets in ([], gens, [rng.choice(elems)], rng.sample(elems, min(2, len(elems)))):
            assert _kernels_py.centralizer_filter(elems, targets) == o_centralizer(elems, targets)


def test_close_group_limit_inclusive():
    gens = [(1, 2, 0)]
    assert _kernels_py.close_group(gens, 3) is not None
    assert _kernels_py.close_group(gens, 2) is None


def test_close_group_matches_oracle():
    for seed in range(8):
        gens = random_gens(seed, 5, 2)
        assert _kernels_py.close_group(gens, 10**4) == o_close(gens)


def test_close_group_at_the_limit():
    one_gen = [(1, 2, 3, 4, 5, 6, 0)]
    twelve_gens = list(abelian((2,) * 12)._raw)
    assert len(twelve_gens) == 12
    for gens in (one_gen, twelve_gens):
        elems = o_close(gens)
        assert _kernels_py.close_group(gens, len(elems)) == elems
        assert _kernels_py.close_group(gens, len(elems) - 1) is None
        assert _kernels_py.close_group(gens, 1) is None
    assert _kernels_py.close_group([(0,)], 1) == [(0,)]


# -- compiled kernels ----------------------------------------------------------


KERNEL_NAMES = (
    "compose",
    "inverse",
    "conjugate",
    "commutes",
    "element_order",
    "close_group",
    "conjugacy_orbit",
    "tuple_orbit",
    "centralizer_filter",
    "normalizer_filter",
)


WARNING_FLAGS = ("-Wall", "-Wextra", "-Werror", "-O2", "-fPIC")


def test_kernels_c_compiles_without_warnings(tmp_path):
    build = compile_kernels_c(tmp_path / "_kernels_c.o", "-c", *WARNING_FLAGS)
    assert build.returncode == 0, build.stderr


def test_compiled_module_exposes_the_pure_names(kernels_c):
    # The names _kernels_py defines, not the ones it imports (lcm, itemgetter).
    pure = {
        name
        for name, value in vars(_kernels_py).items()
        if not name.startswith("_")
        and getattr(value, "__module__", _kernels_py.__name__) == _kernels_py.__name__
    }
    assert pure == {"BACKEND", *KERNEL_NAMES}
    assert {name for name in vars(kernels_c) if not name.startswith("_")} == pure
    # Each kernel takes the same positional parameters in both backends, the
    # compiled ones as declared in their __text_signature__.
    for name in KERNEL_NAMES:
        want = positional_parameters(getattr(_kernels_py, name))
        assert positional_parameters(getattr(kernels_c, name)) == want, name


def positional_parameters(fn):
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in positional]


@given(raw_perm, raw_perm)
def test_pairwise_ops_equivalent(kernels_c, a, b):
    if len(a) != len(b):
        return
    assert kernels_c.compose(a, b) == _kernels_py.compose(a, b)
    assert kernels_c.conjugate(a, b) == _kernels_py.conjugate(a, b)
    assert kernels_c.commutes(a, b) == _kernels_py.commutes(a, b)


@given(raw_perm)
def test_unary_ops_equivalent(kernels_c, a):
    assert kernels_c.inverse(a) == _kernels_py.inverse(a)
    assert kernels_c.element_order(a) == _kernels_py.element_order(a)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_close_group_equivalent(kernels_c, seed):
    gens = random_gens(seed, 6, 2)
    for limit in (10**5, 10, 1):
        assert kernels_c.close_group(gens, limit) == _kernels_py.close_group(gens, limit)


def test_extend_span_matches_the_compiled_closure_at_every_step(kernels_c):
    # The one Dimino step, grown one generator at a time, against two
    # independent oracles: the compiled close_group's breadth-first search
    # at every step, and o_close at the end.
    groups = small_groups()
    groups.append((list(abelian((2,) * 12)._raw), None))
    for gens, elems in groups:
        order = len(kernels_c.close_group(gens, 10**5))
        span = {tuple(range(len(gens[0])))}
        for k in range(1, len(gens) + 1):
            kernels.extend_span(span, gens[:k], order)
            assert span == set(kernels_c.close_group(gens[:k], order)), (gens, k)
        assert elems is None or sorted(span) == elems
        if order > 1:
            # One short of the group: some step stops past the cap.
            span = {tuple(range(len(gens[0])))}
            for k in range(1, len(gens) + 1):
                kernels.extend_span(span, gens[:k], order - 1)
                if len(span) > order - 1:
                    break
            assert len(span) > order - 1, gens


EXTEND_SPAN_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("chromarank._kernels_c", sys.argv[1])
sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sys.modules[spec.name])
from chromarank import _kernels_py, kernels
print(kernels.BACKEND, kernels.extend_span is _kernels_py._extend_span)
"""


def test_extend_span_is_the_pure_step_on_the_compiled_backend(kernels_c):
    # In a child process, so that CHROMARANK_KERNELS=c picks the compiled
    # kernels without changing the backend this run imported.
    src = Path(kernels.__file__).resolve().parents[1]
    env = {**os.environ, "CHROMARANK_KERNELS": "c", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", EXTEND_SPAN_SCRIPT, kernels_c.__file__],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["compiled", "True"]


def test_orbit_functions_equivalent(kernels_c):
    # Equivalent to the pure kernels through the same loop references.
    assert_orbits_match_loop_reference(kernels_c)


def test_filters_equivalent(kernels_c):
    gens = random_gens(3, 6, 2)
    elems = _kernels_py.close_group(gens, 10**5)
    targets = [elems[len(elems) // 3]]
    assert kernels_c.centralizer_filter(elems, targets) == _kernels_py.centralizer_filter(
        elems, targets
    )
    sub_gens = [elems[1]]
    sub = _kernels_py.close_group(sub_gens, 10**5)
    normalizer = _kernels_py.normalizer_filter(elems, sub_gens, sub)
    # Sylow growth passes chunks of elements, which may be empty or hold no
    # member of the normalizer.
    outside = [t for t in elems if t not in normalizer][:5]
    assert outside and _kernels_py.normalizer_filter(outside, sub_gens, sub) == []
    for chunk in (elems, [], outside):
        assert kernels_c.normalizer_filter(chunk, sub_gens, sub) == _kernels_py.normalizer_filter(
            chunk, sub_gens, sub
        )


def test_element_order_equivalent_past_64_bits(kernels_c):
    # Cycles of the prime lengths 2..59 on 440 points: the order is their
    # product, about 1.9e21.  A 4-cycle after them doubles it once the order
    # is already past 2**64.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    perm = []
    for length in primes + [4]:
        base = len(perm)
        perm += [base + (i + 1) % length for i in range(length)]
    primorial = tuple(perm[:440])
    assert math.prod(primes) == 1922760350154212639070
    assert kernels_c.element_order(primorial) == _kernels_py.element_order(primorial)
    assert _kernels_py.element_order(primorial) == math.prod(primes)
    assert kernels_c.element_order(tuple(perm)) == _kernels_py.element_order(tuple(perm))
    assert _kernels_py.element_order(tuple(perm)) == 2 * math.prod(primes)


# Per kernel, arguments with an image outside 0..degree-1 and with a
# permutation whose length is not the degree of the call; for
# conjugacy_orbit also an inverse of the wrong degree, and fewer inverses
# than generators.  tuple_orbit's degree is that of its first permutation.
BAD_ARGUMENTS = {
    "compose": [((3, 0), (0, 1)), ((0, 1, 2), (0, 1))],
    "inverse": [((3, 0),)],
    "conjugate": [((0, 1), (3, 0)), ((0, 1, 2), (0, 1))],
    "commutes": [((3, 0), (0, 1)), ((0, 1), (0, 1, 2))],
    "element_order": [((3, 0),)],
    "close_group": [([(3, 0)], 10), ([(0, 1, 2), (0, 1)], 10)],
    "conjugacy_orbit": [
        ((0, 1), [(3, 0)], [(0, 1)]),
        ((0, 1, 2), [(0, 1)], [(0, 1)]),
        ((0, 1), [(1, 0)], [(1, 0, 2)]),
        ((0, 1), [(1, 0)], []),
    ],
    "tuple_orbit": [((0, 3), [(1, 0, 2)]), ((0, 1), [(1, 0, 2), (1, 0)])],
    "centralizer_filter": [([(3, 0)], [(0, 1)]), ([(0, 1)], [(0, 1, 2)])],
    "normalizer_filter": [([(0, 1)], [(3, 0)], [(0, 1)]), ([(0, 1)], [(0, 1)], [(0, 1, 2)])],
}

BAD_ARGUMENTS_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("chromarank._kernels_c", sys.argv[1])
kernels_c = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernels_c)
for name, calls in {calls!r}.items():
    for args in calls:
        print(name, args, end=" -> ", flush=True)
        try:
            print("returned", getattr(kernels_c, name)(*args))
        except ValueError:
            print("ValueError")
"""


def test_compiled_kernels_reject_bad_arguments(kernels_c):
    # In a child process, so that a read out of bounds that crashes the
    # interpreter fails this test instead of ending the run.
    assert set(BAD_ARGUMENTS) == set(KERNEL_NAMES)
    proc = subprocess.run(
        [sys.executable, "-c", BAD_ARGUMENTS_SCRIPT.format(calls=BAD_ARGUMENTS), kernels_c.__file__],
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, (proc.returncode, lines, proc.stderr)
    assert len(lines) == sum(map(len, BAD_ARGUMENTS.values()))
    assert all(line.endswith(" -> ValueError") for line in lines), lines


# Run by each sibling interpreter, which has no pytest: the compiled kernels
# (argv[1]) against the pure ones (argv[2]), both loaded by file path, on
# seeded inputs, and the compiled ones on the bad arguments.
SIBLING_SCRIPT = """
import importlib.util, random, sys

def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

kernels_c = load("chromarank._kernels_c", sys.argv[1])
pure = load("chromarank._kernels_py", sys.argv[2])
compared = set()

def same(name, *args):
    got, want = getattr(kernels_c, name)(*args), getattr(pure, name)(*args)
    assert got == want, (name, args, got, want)
    compared.add(name)

rng = random.Random(0)
for degree in (1, 2, 5, 9, 70):
    perms = [tuple(rng.sample(range(degree), degree)) for _ in range(4)]
    for a in perms:
        same("inverse", a)
        same("element_order", a)
        for b in perms:
            same("compose", a, b)
            same("conjugate", a, b)
            same("commutes", a, b)
# Cycles of the primes 2..59, on 440 points: an element order past 2**64.
primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
primorial = [sum(primes[:k]) + (i + 1) % n for k, n in enumerate(primes) for i in range(n)]
same("element_order", tuple(primorial))
for degree in (1, 3, 4, 6):
    gens = [tuple(rng.sample(range(degree), degree)) for _ in range(2)]
    for limit in (10**4, 10, 1):
        same("close_group", gens, limit)
    elems = pure.close_group(gens, 10**4)
    inverses = [pure.inverse(g) for g in gens]
    index = {{e: i for i, e in enumerate(elems)}}
    tabled = [tuple(index[pure.conjugate(e, g)] for e in elems) for g in gens]
    for x in rng.sample(elems, min(4, len(elems))):
        y = rng.choice(elems)
        same("conjugacy_orbit", x, gens, inverses)
        for tup in ((), (x,), (x, y), (y, x, y)):
            same("tuple_orbit", tuple(index[e] for e in tup), tabled)
        same("centralizer_filter", elems, [x, y])
        same("normalizer_filter", elems, [x], pure.close_group([x], 10**4))
for name, calls in {calls!r}.items():
    for args in calls:
        try:
            getattr(kernels_c, name)(*args)
        except ValueError:
            continue
        raise AssertionError((name, args, "did not raise ValueError"))
assert compared == set({calls!r}), sorted(compared)
print("agree")
"""


def sibling_pythons():
    """(header directory, interpreter) of each CPython 3.10 and later install
    beside this interpreter's (as pyenv keeps them), this one left out."""
    here = Path(sys.base_prefix)
    found = []
    for prefix in sorted(here.parent.iterdir()):
        if prefix == here:
            continue
        for include in sorted(prefix.glob("include/python3.*")):
            minor = include.name.removeprefix("python3.")
            python = prefix / "bin" / include.name
            headers = (include / "Python.h").exists()
            if minor.isdigit() and int(minor) >= 10 and headers and python.exists():
                found.append((include, python))
    return found


def test_kernels_c_matches_pure_on_sibling_pythons(tmp_path):
    # _kernels_c.c is written against the C API of 3.10.  Each later
    # interpreter's headers must take it without a warning, and the
    # interpreter must load it, under its own EXT_SUFFIX, and find it equal
    # to the pure kernels.
    siblings = sibling_pythons()
    if not siblings:
        pytest.skip("no other CPython 3.10+ install beside this one")
    for include, python in siblings:
        suffix = subprocess.run(
            [python, "-c", "import sysconfig; print(sysconfig.get_config_var('EXT_SUFFIX'))"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        target = tmp_path / include.name / f"_kernels_c{suffix}"
        target.parent.mkdir()
        build = compile_kernels_c(target, "-shared", *WARNING_FLAGS, include=include)
        assert build.returncode == 0, (include, build.stderr)
        script = SIBLING_SCRIPT.format(calls=BAD_ARGUMENTS)
        proc = subprocess.run(
            [python, "-c", script, target, _kernels_py.__file__], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (0, "agree\n"), (python, proc.stderr)
