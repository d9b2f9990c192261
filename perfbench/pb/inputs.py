"""Seeded input generation: the same seed always gives the same inputs.

The benchmark derives every simulated input from ``--seed`` here and
hands perf_driver only the generated values, so the simulator never sees
the seed itself.
"""

import hashlib

#: The seed whose results are pinned by the golden digests. Seed 1 is
#: also the seed the figure harnesses build their SPEC programs with.
DEFAULT_SEED = 1

#: Per-pass work of the attack half of the library workload. Undefended
#: AES attacks are ~10x cheaper than defended ones, so the pass runs
#: more of them; each variant then takes a comparable share of the half.
AES_UNDEFENDED_KEYS = 12
AES_DEFENDED_KEYS = 2
RSA_EXPONENTS = 32

#: RSA exponent width; every exponent has its top bit and exactly half
#: of its bits set, so the attack's work does not depend on the seed.
RSA_EXP_BITS = 20


def _stream(tag, seed, index):
    """32 pseudo-random bytes for (tag, seed, index)."""
    text = f"perfbench:{tag}:{seed}:{index}".encode()
    return hashlib.sha256(text).digest()


def aes_keys(seed, count, tag):
    """``count`` 128-bit AES keys as 32-digit hex strings."""
    return [_stream(tag, seed, i)[:16].hex() for i in range(count)]


def rsa_exponent(seed, index, tag):
    """A RSA_EXP_BITS-bit exponent with its top bit and half its bits set."""
    width = RSA_EXP_BITS
    digest = _stream(tag, seed, index)
    # Rank the low bit positions by hash byte; set the first half.
    order = sorted(range(width - 1), key=lambda b: (digest[b], b))
    exponent = 1 << (width - 1)
    for bit in order[: width // 2 - 1]:
        exponent |= 1 << bit
    return exponent


def spec_seed(seed):
    """Seed for ``SpecWorkload::build`` (seed 1 = the figures' programs)."""
    return seed


def stealth_inputs(seed):
    """All attack inputs of the library workload for one seed."""
    return {
        "aes_undefended": aes_keys(seed, AES_UNDEFENDED_KEYS, "aes-u"),
        "aes_defended": aes_keys(seed, AES_DEFENDED_KEYS, "aes-d"),
        "rsa_undefended": [rsa_exponent(seed, i, "rsa-u")
                           for i in range(RSA_EXPONENTS)],
        "rsa_defended": [rsa_exponent(seed, i, "rsa-d")
                         for i in range(RSA_EXPONENTS)],
        "pt_seed": seed,
    }


def stealth_args(inputs):
    """Driver arguments for ``stealth_inputs`` output."""
    args = ["--pt-seed", str(inputs["pt_seed"])]
    for key in inputs["aes_undefended"]:
        args += ["--aes-undefended", key]
    for key in inputs["aes_defended"]:
        args += ["--aes-defended", key]
    for exp in inputs["rsa_undefended"]:
        args += ["--rsa-undefended", format(exp, "x")]
    for exp in inputs["rsa_defended"]:
        args += ["--rsa-defended", format(exp, "x")]
    return args
