"""The reference orbit-exponent search that the fundamental-domain tests
check the kernel against."""

from ifsconj.errors import NumericFailureError


def locate_fundamental_exponent(x: float, k: float, a: float, cap: int = 10_000):
    """Reference search for the orbit exponent of x > 0.

    Returns (n, w) with w = k**n * x inside the closed interval [k*a, a];
    n may be negative (inward orbits use negative powers). Ties resolve
    toward the exponent of smaller magnitude because both compares are
    closed. Takes one rounded step per multiply or divide, as the kernel's
    checked walk does for its first steps; deeper orbits in the kernel jump
    to their interval in closed form and can differ from this search by a
    few ulp in w, and by one in n at a seam.
    """
    if x <= 0 or a <= 0 or not 0 < k < 1:
        raise ValueError("requires x > 0, a > 0, 0 < k < 1")
    w = x
    n = 0
    steps = 0
    while w > a:
        w *= k
        n += 1
        steps += 1
        if steps > cap:
            raise NumericFailureError(f"exponent search exceeded {cap} steps")
    while w < k * a:
        w /= k
        n -= 1
        steps += 1
        if steps > cap:
            raise NumericFailureError(f"exponent search exceeded {cap} steps")
    return n, w


