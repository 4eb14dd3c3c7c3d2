"""The benchmark's three workloads: inputs, one pass, and output checks.

A workload is a fixed list of operations, each one public chromarank call.
A pass runs them in order in this process and returns one output per
operation; `check` tests a pass's outputs against independent computations
or required properties, never against a stored copy of earlier output.
Every operation builds its groups fresh from their expressions, so no
PermGroup._cache carries over between operations or passes, as in a CLI
call.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import traceback
from math import prod
from pathlib import Path

from chromarank import chromatic, dsl, registry
from chromarank.perm import Permutation

import oracle

HERE = Path(__file__).resolve().parent

FAILED = object()  # output of an operation that raised


class Workload:
    """Operations as (kind, fn) pairs; fn takes the pass's shared state."""

    name = ""

    def __init__(self):
        self.ops: list[tuple[str, object]] = []

    def begin_pass(self) -> None:
        """Undo what an earlier pass left on disk."""

    def run_pass(self) -> tuple[list, int]:
        """Run every operation once; returns (outputs, failed count)."""
        self.begin_pass()
        state: dict = {}
        outputs = []
        failed = 0
        for kind, fn in self.ops:
            try:
                outputs.append(fn(state))
            except Exception:
                print(f"operation {len(outputs)} ({kind}) raised:", file=sys.stderr)
                traceback.print_exc()
                outputs.append(FAILED)
                failed += 1
            # Free what the operation left in reference cycles, as the exit
            # of a CLI process would, so it cannot pile onto the next one.
            gc.collect()
        return outputs, failed

    def check(self, outputs) -> list[str]:
        raise NotImplementedError


# -- tuple-rank ----------------------------------------------------------------


CORPUS_EXPRS = {
    "C_6": "c(6)",
    "S_3": "s(3)",
    "S_4": "s(4)",
    "D_8": "d(4)",
    "Q_8": "q8",
    "A_4": f'ingest("{HERE / "a4.gens"}")',
    "C_2xC_4": "ab(2,4)",
    "GL_2(3)": "gl(2,3)",
    "S_3xS_3": "prod(s(3),s(3))",
}


def _fresh(expr: str, relabel: Permutation | None = None):
    group = dsl.evaluate(dsl.parse(expr))
    return group if relabel is None else group.conjugate_by(relabel)


class TupleRank(Workload):
    """hkr_rank on large groups and verify_rank_identity over the corpus.

    Before counting, each group is relabeled by a permutation of its points
    drawn from the seed, so the ranks checked against the oracle (computed
    on other representations) also show invariance under relabeling.
    """

    name = "tuple-rank"

    def __init__(self, seed: int, rank_ops=oracle.RANK_OPS, corpus=oracle.CORPUS):
        super().__init__()
        rng = random.Random(seed)
        degrees: dict[str, int] = {}

        def relabeling(expr):
            if expr not in degrees:
                degrees[expr] = _fresh(expr).degree
            images = list(range(degrees[expr]))
            rng.shuffle(images)
            self.relabelings.append(images)
            return Permutation(images)

        self.keys = []
        self.relabelings = []
        for expr, p, h in rank_ops:
            s = relabeling(expr)
            self.keys.append((expr, p, h))
            self.ops.append(
                ("hkr_rank", lambda st, e=expr, s=s, p=p, h=h: chromatic.hkr_rank(_fresh(e, s), p, h))
            )
        for label in corpus:
            expr = CORPUS_EXPRS[label]
            for p in oracle.IDENTITY_PRIMES:
                for n in range(oracle.IDENTITY_MAX_N + 1):
                    for t in range(n + 1):
                        s = relabeling(expr)
                        self.keys.append((label, p, n, t))
                        self.ops.append(
                            (
                                "verify_rank_identity",
                                lambda st, e=expr, s=s, p=p, n=n, t=t: chromatic.verify_rank_identity(
                                    _fresh(e, s), p, n, t
                                ).to_record(),
                            )
                        )
        self.expected = oracle.load()

    def check(self, outputs) -> list[str]:
        errors = []
        ranks = {}
        for key, out in zip(self.keys, outputs):
            if out is FAILED:
                continue
            if len(key) == 3:
                ranks[key] = out
                want = self.expected.get(key)
                if out != want:
                    errors.append(f"rank{key} of the relabeled group is {out}, oracle says {want}")
                continue
            label, p, n, t = key
            want = self.expected.get((label, p, n))
            if not out["pass"] or out["lhs"] != out["rhs"]:
                errors.append(f"identity {key}: lhs {out['lhs']} != rhs {out['rhs']}")
            if out["lhs"] != want:
                errors.append(f"identity {key}: lhs {out['lhs']}, oracle rank {want}")
        whole, left, right = oracle.PRODUCT_FORMULA
        for (expr, p, h), rank in ranks.items():
            factors = [ranks.get((left, p, h)), ranks.get((right, p, h))]
            if expr == whole and None not in factors and rank != prod(factors):
                errors.append(f"rank({expr}) = {rank}, product of factor ranks is {prod(factors)}")
        return errors


# -- explore-p3 ------------------------------------------------------------------


class ExploreP3(Workload):
    """Seed a p=3 registry, certify c(1) and c(3), explore, save and load."""

    name = "explore-p3"
    ORDER_BOUND = 243
    DEPTH = 6

    def __init__(self, workdir: Path):
        super().__init__()
        path = str(workdir / "explore-p3.jsonl")

        def seed(st):
            st["reg"] = registry.Registry.with_defaults(3)
            return len(st["reg"].entries)

        def certify(expr):
            def op(st):
                st["tree"] = registry.certify(expr, 3, st["reg"])
                return st["tree"].to_record()

            return op

        def register(st):
            return [e.name for e in registry.register_derivation(st["reg"], st["tree"], 3)]

        def explore(st):
            added = registry.explore(st["reg"], 3, self.ORDER_BOUND, depth=self.DEPTH)
            return [e.to_record() for e in added]

        def save(st):
            st["reg"].save(path)
            return [e.to_record() for e in st["reg"].entries]

        def load(st):
            return [e.to_record() for e in registry.Registry.load(path).entries]

        self.ops = [
            ("Registry.with_defaults", seed),
            ("certify", certify("c(1)")),
            ("register_derivation", register),
            ("certify", certify("c(3)")),
            ("register_derivation", register),
            ("explore", explore),
            ("Registry.save", save),
            ("Registry.load", load),
        ]

    def check(self, outputs) -> list[str]:
        added, saved, loaded = outputs[5], outputs[6], outputs[7]
        if FAILED in (added, saved, loaded):
            return []
        errors = []
        if not added:
            errors.append("explore added no entries")
        by_name = {r["name"]: r for r in saved}
        for r in added:
            if r["status"] != "good" or r["order"] > self.ORDER_BOUND:
                errors.append(f"added entry {r['name']} is {r['status']} of order {r['order']}")
            parents = [by_name[n]["order"] for n in r["parents"]]
            if r["rule"] == "WREATH" and r["order"] != parents[0] ** 3 * 3:
                errors.append(f"WREATH {r['name']}: order {r['order']}, parent {parents[0]}")
            if r["rule"] == "PRODUCT" and r["order"] != prod(parents):
                errors.append(f"PRODUCT {r['name']}: order {r['order']}, parents {parents}")
            if r["rule"] == "CENTRALIZER" and parents[0] % r["order"]:
                errors.append(f"CENTRALIZER {r['name']}: {r['order']} does not divide {parents[0]}")
        bad = [r["fingerprint"] for r in saved if r["status"] == "bad"]
        if not bad:
            errors.append("the bad unipotent entry is missing")
        seen = set()
        for r in saved:
            fp = r["fingerprint"]
            if fp is None:
                continue
            if sum(size * count for size, count in fp["class_size_histogram"]) != r["order"]:
                errors.append(f"{r['name']}: class sizes do not sum to the order")
            if sum(count for _, count in fp["element_order_histogram"]) != r["order"]:
                errors.append(f"{r['name']}: element-order histogram does not sum to the order")
            if r["status"] == "good" and fp in bad:
                errors.append(f"good entry {r['name']} matches the bad fingerprint")
            key = json.dumps(fp, sort_keys=True)
            if key in seen:
                errors.append(f"{r['name']} shares its fingerprint with another entry")
            seen.add(key)
        if loaded != saved:
            errors.append("loading the saved registry does not reproduce its records")
        return errors


# -- certify-example ---------------------------------------------------------------


E4608 = "wr(gl(2,3),c(2))"
E96 = f"cent({E4608},order=4,czorder=96)"
E18432 = f"wr({E96},c(2))"
E192 = f"cent({E18432},order=8,czorder=192)"


class CertifyExample(Workload):
    """The paper's worked example, step by step as `chromarank certify
    --registry FILE` runs it, then Sylow 2-subgroups of both centralizers."""

    name = "certify-example"
    P = 2
    ORDERS = {E4608: 4608, E96: 96, E18432: 18432, E192: 192}
    LAST_RULES = ["CENTRALIZER", "WREATH", "CENTRALIZER", "WREATH", "SEED"]
    SYLOW_ORDERS = {E96: 32, E192: 64}

    def __init__(self, workdir: Path):
        super().__init__()
        self.path = path = str(workdir / "certify-example.jsonl")
        p = self.P

        def load_or_seed(st):
            if os.path.exists(path):
                st["reg"] = registry.Registry.load(path)
            else:
                st["reg"] = registry.Registry.with_defaults(p)
            return [e.to_record() for e in st["reg"].entries]

        def certify(expr):
            def op(st):
                st["tree"] = registry.certify(expr, p, st["reg"])
                return None if st["tree"] is None else st["tree"].to_record()

            return op

        def replay(st):
            registry.replay(st["tree"], p, st["reg"])
            return True

        def register(expr):
            def op(st):
                registry.register_derivation(st["reg"], st["tree"], p)
                return st["reg"].get(expr).order

            return op

        def save(st):
            st["reg"].save(path)
            return [e.to_record() for e in st["reg"].entries]

        def sylow(expr):
            def op(st):
                group = _fresh(expr)
                return group.order(), group.sylow_subgroup(p).order()

            return op

        for expr in self.ORDERS:
            self.ops += [
                ("Registry.load", load_or_seed),
                ("certify", certify(expr)),
                ("replay", replay),
                ("register_derivation", register(expr)),
                ("Registry.save", save),
            ]
        self.ops.append(("Registry.load", load_or_seed))
        self.ops += [("sylow_subgroup", sylow(expr)) for expr in self.SYLOW_ORDERS]

    def begin_pass(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)

    def check(self, outputs) -> list[str]:
        errors = []
        exprs = list(self.ORDERS)
        for i, expr in enumerate(exprs):
            _loaded, tree, _replayed, order, saved = outputs[5 * i : 5 * i + 5]
            if tree is None:
                errors.append(f"no derivation found for {expr}")
            if order is not FAILED and order != self.ORDERS[expr]:
                errors.append(f"{expr} has order {order}, the paper says {self.ORDERS[expr]}")
            reloaded = outputs[5 * i + 5]
            if FAILED not in (saved, reloaded) and reloaded != saved:
                errors.append(f"the registry file saved after {expr} reloads differently")
            if i == len(exprs) - 1 and tree not in (None, FAILED):
                rules = [node["rule"] for node in _walk(tree)]
                if rules != self.LAST_RULES:
                    errors.append(f"last derivation's rules are {rules}")
        for expr, out in zip(self.SYLOW_ORDERS, outputs[-len(self.SYLOW_ORDERS) :]):
            if out is FAILED:
                continue
            order, sylow = out
            if sylow != self.SYLOW_ORDERS[expr] or sylow != _p_part(order, self.P):
                errors.append(f"Sylow 2-subgroup of {expr} has order {sylow}, group order {order}")
        return errors


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _walk(record):
    yield record
    for premise in record["premises"]:
        yield from _walk(premise)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The named workload's inputs.  Only tuple-rank draws from the seed:
    the registry workloads replay fixed expressions, since an entry's
    expression names one concrete permutation group."""
    if name == TupleRank.name:
        return TupleRank(seed)
    if name == ExploreP3.name:
        return ExploreP3(workdir)
    if name == CertifyExample.name:
        return CertifyExample(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (TupleRank.name, ExploreP3.name, CertifyExample.name)
