"""The benchmark's arithmetic: the tail-percentile rule, the quantile
estimate and the output digest."""

from __future__ import annotations

import hashlib
import math

# Candidate tail percentiles in hundredths of a percent, lowest first.
LADDER = (5000, 7500, 9000, 9500, 9900, 9990, 9999)
MIN_BEYOND = 10
SIMPSON_STEPS = 8


def _rank(p: int, n: int) -> int:
    # Nearest-rank position (1-based) of percentile p/100 among n samples.
    return max(1, -(-p * n // 10000))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest ladder percentile with at least MIN_BEYOND samples
    above its rank, as (value, percentile, samples beyond). With too few
    samples for any of them, the maximum is returned with percentile 100."""
    s = sorted(values)
    n = len(s)
    best = (s[-1], 100.0, 0)
    for p in LADDER:
        rank = _rank(p, n)
        if n - rank >= MIN_BEYOND:
            best = (s[rank - 1], p / 100, n - rank)
    return best


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each rank's
    share of [0, 1]. It leans on the ranks around p instead of one of them,
    which matters when a run holds few samples of ops that differ in size."""
    s = sorted(values)
    n = len(s)
    if n == 1 or p >= 1:
        return s[-1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Beyond 12 standard deviations of the Beta the mass is negligible.
    half = 12 * math.sqrt(p * (1 - p) / (n + 2))
    lo, hi = max(0, int((p - half) * n)), min(n, int((p + half) * n) + 1)
    weights = []
    for i in range(lo, hi):
        # Simpson's rule over the rank's share [i/n, (i+1)/n].
        h = 1 / (n * SIMPSON_STEPS)
        x0 = i / n
        total = density(x0) + density(x0 + SIMPSON_STEPS * h)
        total += sum((4 if j % 2 else 2) * density(x0 + j * h) for j in range(1, SIMPSON_STEPS))
        weights.append(total * h / 3)
    mass = sum(weights)
    return sum(w * v for w, v in zip(weights, s[lo:hi])) / mass


def fingerprint(parts: list[bytes]) -> bytes:
    """SHA-256 of an op's outputs, each part length-prefixed so that
    boundaries between parts cannot shift unnoticed."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.digest()


def digest(fingerprints: list[bytes]) -> str:
    """Hex SHA-256 over the op fingerprints, in op order."""
    return hashlib.sha256(b"".join(fingerprints)).hexdigest()
