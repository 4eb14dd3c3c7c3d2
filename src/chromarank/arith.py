"""Small number-theory helpers."""


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale parameters."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_power(n: int, p: int) -> bool:
    """True when n is a power of p (including p**0 == 1)."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group of F_q, q prime."""
    if q == 2:
        return 1
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"no primitive root modulo {q}; is it prime?")
