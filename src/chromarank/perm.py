"""Permutation values and cycle notation.

A permutation of degree d is a bijection of {0, ..., d-1} stored as the
tuple of point images.  Composition reads left to right: (a * b)(i) is
b(a(i)).  Instances are treated as immutable; ordering, hashing and
equality all delegate to the image tuple, so lexicographic comparison of
image arrays is the canonical order used throughout the package.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from . import kernels
from .errors import DegreeMismatch, InvalidPermutation, ParseError

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A permutation of {0, ..., degree-1} in image form."""

    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if not imgs:
            raise InvalidPermutation("degree must be at least 1")
        seen = bytearray(len(imgs))
        for i in imgs:  # exact type: bool is a subclass of int
            if type(i) is not int or not 0 <= i < len(imgs) or seen[i]:
                raise InvalidPermutation(f"not a bijection of 0..{len(imgs) - 1}: {imgs}")
            seen[i] = 1
        self.images = imgs

    @classmethod
    def _wrap(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap a trusted image tuple without re-validation."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise InvalidPermutation("degree must be at least 1")
        return cls._wrap(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation such as "(0 1 2)(3 4)" or "()".

        Points are 0-based and may be separated by spaces or commas.  The
        degree defaults to one past the largest point mentioned.
        """
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty permutation text")
        if not re.fullmatch(r"(\s*\([^()]*\))+\s*", stripped):
            raise ParseError(f"malformed cycle notation: {text!r}")
        cycles: list[list[int]] = []
        used: set[int] = set()
        for m in _CYCLE_RE.finditer(stripped):
            inner = m.group(1).replace(",", " ").split()
            if not inner:
                continue
            pts = []
            for tok in inner:
                if not (tok.isascii() and tok.isdigit()):
                    raise ParseError(f"bad point {tok!r} in {text!r}")
                pts.append(int(tok))
            if len(set(pts)) != len(pts) or used & set(pts):
                raise ParseError(f"cycles are not disjoint in {text!r}")
            used.update(pts)
            cycles.append(pts)
        top = max(used) + 1 if used else 1
        if degree is None:
            degree = top
        elif degree < top:
            raise ParseError(f"point {top - 1} exceeds degree {degree}")
        images = list(range(degree))
        for pts in cycles:
            for a, b in zip(pts, pts[1:]):
                images[a] = b
            images[pts[-1]] = pts[0]
        return cls._wrap(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise DegreeMismatch(f"degree {len(self.images)} vs {len(other.images)}")
        return Permutation._wrap(kernels.compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(kernels.inverse(self.images))

    __invert__ = inverse

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = tuple(range(len(self.images)))
        base = self.images
        while n:
            if n & 1:
                result = kernels.compose(result, base)
            base = kernels.compose(base, base)
            n >>= 1
        return Permutation._wrap(result)

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        if len(self.images) != len(g.images):
            raise DegreeMismatch(f"degree {len(self.images)} vs {len(g.images)}")
        return Permutation._wrap(kernels.conjugate(self.images, g.images))

    def commutes_with(self, other: "Permutation") -> bool:
        if len(self.images) != len(other.images):
            raise DegreeMismatch(f"degree {len(self.images)} vs {len(other.images)}")
        return kernels.commutes(self.images, other.images)

    def order(self) -> int:
        return kernels.element_order(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        """Disjoint-cycle notation; fixed points omitted, identity is "()"."""
        out = []
        seen = bytearray(len(self.images))
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = 1
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
                j = self.images[j]
            out.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(out) if out else "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images < other.images

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}]{self.cycle_string()}"
