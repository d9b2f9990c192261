"""Output-correctness checks of the benchmark.

Every check returns a list of failure messages (empty = pass), so the
benchmark can count failed operations and the tests can show that each
check fires on a seeded defect.
"""

# Seed-independent expectations of the simulated results.
AES_UNDEFENDED_KEY_BITS = 64
AES_DEFENDED_KEY_BITS = 0
#: Key bytes the undefended attack may leave undetermined: with the
#: 150-sample cap a wrong guess survives about once per hundred keys (it
#: is never recovered as a wrong nibble).
AES_UNDETERMINED_BYTES = 1
RSA_UNDEFENDED_ACCURACY = 1.0
#: Defended RSA accuracy must stay at or below this ("well below 1.0";
#: 0.55 for every half-weight 20-bit exponent at the defining commit).
RSA_DEFENDED_MAX_ACCURACY = 0.75


def check_digest(cell_id, digest, want):
    """The simulated results of a cell equal the recorded ones."""
    if want is None:
        return [f"{cell_id}: no recorded digest"]
    if digest != want:
        return [f"{cell_id}: digest {digest} != recorded {want}"]
    return []


def check_devect_cell(rec):
    """Invariants of one detailed (preset, policy) cell."""
    errors = []
    cell = rec["cell"]
    # Only the CPI-stack-off toggle runs without the CPI stack.
    if rec["mode"] != "cpi_stack_off":
        if not rec["cpi"]:
            errors.append(f"{cell}: no CPI stack in mode {rec['mode']}")
        elif sum(rec["cpi"]) != rec["cycles"]:
            errors.append(f"{cell}: CPI buckets sum to {sum(rec['cpi'])}, "
                          f"cycles {rec['cycles']}")
    if rec["policy"] == "csd_devect" and rec["wake_stall_cycles"] != 0:
        errors.append(f"{cell}: {rec['wake_stall_cycles']} wake-stall "
                      "cycles under CsdDevect")
    if rec["uops"] <= 0 or rec["instructions"] <= 0:
        errors.append(f"{cell}: simulated nothing")
    return errors


def check_stealth_cell(rec, aes_undefended=AES_UNDEFENDED_KEY_BITS,
                       aes_defended=AES_DEFENDED_KEY_BITS):
    """Invariants of one attack variant run."""
    errors = []
    cell = f"{rec['cell']}:{rec['input']}"
    variant = rec["variant"]
    if variant.startswith("aes."):
        bits = rec["key_bits_recovered"]
        if variant.endswith(".defended"):
            ok, want = bits == aes_defended, str(aes_defended)
        else:
            # Every byte the attack determines must be right.
            undetermined = 16 - rec["nibbles_determined"]
            ok = (undetermined <= AES_UNDETERMINED_BYTES and
                  bits == aes_undefended - 4 * undetermined)
            want = f"{aes_undefended} less 4 per undetermined byte " \
                f"(at most {AES_UNDETERMINED_BYTES}; {undetermined} here)"
        if not ok:
            errors.append(f"{cell}: recovered {bits} key bits, "
                          f"expected {want}")
    else:
        acc = rec["rsa_accuracy"]
        if variant.endswith(".defended"):
            if acc > RSA_DEFENDED_MAX_ACCURACY:
                errors.append(f"{cell}: defended RSA accuracy {acc} > "
                              f"{RSA_DEFENDED_MAX_ACCURACY}")
        elif acc != RSA_UNDEFENDED_ACCURACY:
            errors.append(f"{cell}: undefended RSA accuracy {acc} != "
                          f"{RSA_UNDEFENDED_ACCURACY}")
        if not rec["rsa_output_ok"]:
            errors.append(f"{cell}: victim computed a wrong modexp result")
    return errors


def check_same_digest(cell_id, digests):
    """Every run of one cell (passes, traced run, host-only toggles)
    produced the same simulated results."""
    if len(set(digests)) > 1:
        return [f"{cell_id}: simulated results differ between runs: "
                f"{sorted(set(digests))}"]
    return []


def check_sidecar(binary, sidecar, golden):
    """A harness sidecar's stats and tables equal the golden copy."""
    want = golden.get(binary)
    if want is None:
        return [f"{binary}: no golden sidecar"]
    errors = []
    for key in ("stats", "tables"):
        if sidecar.get(key) != want[key]:
            errors.append(f"{binary}: sidecar {key} differ from golden")
    return errors
