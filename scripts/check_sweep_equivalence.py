#!/usr/bin/env python3
"""Assert two stores hold bit-identical results for the same sweep.

The multi-host acceptance check, used by the nightly workflow: after a
serial baseline campaign persists into one store and a concurrent
multi-worker drain of the same manifest persists into another, every
shard the manifest names must match **bit-for-bit** between the two —
and so must the streamed per-group aggregates.  Records are compared as
the raw decoded JSON payloads (floats round-trip through shortest-repr,
the NaN sentinel is a tagged dict), so equality here is bit-equality of
the stored lines' content, not approximate agreement.

Usage::

    python scripts/check_sweep_equivalence.py STORE_A STORE_B \\
        [--manifest PREFIX]

Stores are named by URI (``file:DIR``, ``mem:NAME``) or a bare
directory path, so the nightly drills can byte-diff a 2-worker
``file:`` drain — or an exported ``mem:`` drill — directly against the
serial filesystem baseline.  Every manifest present in
STORE_A (optionally filtered by name prefix) is checked; exits
non-zero listing each divergent or missing shard.
"""

import argparse
import sys

from repro.store import SweepManifest, list_manifests, open_store
from repro.store.aggregate import stream_aggregates


def compare_manifest(name, store_a, store_b):
    """Every divergence for one sweep, as human-readable strings."""
    errors = []
    manifest = SweepManifest.load(store_a, name)
    other = SweepManifest.load(store_b, name, missing_ok=True)
    if other is None:
        return [f"{name}: manifest missing from second store"]
    if manifest.keys() != other.keys():
        errors.append(f"{name}: manifests list different shard keys")
    for entry in manifest:
        record_a = store_a.load(entry.key)
        record_b = store_b.load(entry.key)
        label = entry.label or entry.key
        if record_a is None or record_b is None:
            missing = "first" if record_a is None else "second"
            errors.append(f"{name}: {label}: no record in {missing} store")
        elif record_a != record_b:
            errors.append(f"{name}: {label}: records differ")
    if errors:
        return errors
    # Belt and braces: the streamed Figure-2 aggregates must finalise
    # to identical floats too (they do whenever the records match —
    # this guards the aggregation path itself).
    groups_a = stream_aggregates(store_a, manifest=manifest)
    groups_b = stream_aggregates(store_b, manifest=other)
    if sorted(groups_a) != sorted(groups_b):
        return [f"{name}: aggregates cover different group sizes"]
    for n in sorted(groups_a):
        a, b = groups_a[n], groups_b[n]
        if a.reliability.values.counts != b.reliability.values.counts:
            errors.append(f"{name}: n={n}: reliability multisets differ")
        elif a.reliability and (
            a.reliability_summary() != b.reliability_summary()
        ):
            errors.append(f"{name}: n={n}: reliability summaries differ")
        if a.efficiency.counts != b.efficiency.counts:
            errors.append(f"{name}: n={n}: efficiency multisets differ")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "store_a", metavar="STORE_A", help="store URI or directory path"
    )
    parser.add_argument(
        "store_b", metavar="STORE_B", help="store URI or directory path"
    )
    parser.add_argument(
        "--manifest",
        metavar="PREFIX",
        default=None,
        help="only manifests whose name starts with PREFIX",
    )
    args = parser.parse_args()
    try:
        store_a = open_store(args.store_a, create=False)
        store_b = open_store(args.store_b, create=False)
    except FileNotFoundError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    names = [
        name
        for name in list_manifests(store_a)
        if args.manifest is None or name.startswith(args.manifest)
    ]
    if not names:
        print(f"ERROR: no manifests in {args.store_a}", file=sys.stderr)
        return 1
    errors = []
    for name in names:
        errors.extend(compare_manifest(name, store_a, store_b))
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    print(
        f"checked {len(names)} manifest(s): "
        f"{'DIVERGED' if errors else 'bit-identical'}"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
