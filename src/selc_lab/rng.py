"""Named random streams.

Every source of randomness (noise injection, weight init, epoch shuffling,
mixup draws) pulls from its own counter-based Philox stream, derived from a
root seed plus a label path. Streams never overlap, so adding draws to one
consumer cannot silently shift another.
"""

import numpy as np

from .errors import require


def _label_word(label) -> int:
    # imported only here: hashlib maps OpenSSL's libcrypto, which commands
    # that draw no stream need not load
    import hashlib

    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def check_seed(seed: int, name: str) -> None:
    """Reject a root seed that would share its streams with another:
    ``stream`` keeps the two 32-bit words of a seed's 64-bit two's
    complement, which tell apart exactly the seeds in [-2**63, 2**63)."""
    require(-2**63 <= seed < 2**63, f"{name} must be in [-2**63, 2**63), got {seed}")


# the annotation is a string, so that importing this module does not load
# numpy.random; the first call does
def stream(root_seed: int, *labels) -> "np.random.Generator":
    """Return the generator for ``(root_seed, *labels)``.

    The same arguments always yield the same stream, independent of any
    other stream's consumption.
    """
    root = int(root_seed)
    entropy = [root & 0xFFFFFFFF, (root >> 32) & 0xFFFFFFFF]
    entropy.extend(_label_word(label) for label in labels)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
