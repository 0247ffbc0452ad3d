"""State-machine replication on multi-valued consensus — as a service.

The full stack a downstream system would deploy: replicas propose
*commands* (encoded as small integers), each log slot is decided by
multi-valued consensus (bit-prefix agreement over Algorithm 1), and every
replica applies the decided command stream to a local key-value store.
Because consensus guarantees one command per slot at every correct
replica, the stores stay byte-identical no matter what the omission
adversary does within its budget.

The service runs over any registered transport: in-process (the default)
or ``--transport tcp``, where every slot's replicas are hosted by real
OS worker processes speaking length-prefixed frames over localhost TCP
(``repro.transport``).  ``--verify-replay`` additionally records each
slot's execution and replays it *in-process*, asserting the recorded
fingerprint reproduces — the cross-transport determinism check, live.

Command encoding (6 bits): ``op(2) | key(2) | value(2)`` with ops
SET / INC / DEL / NOP over four keys.

Run:  python examples/state_machine_replication.py
      python examples/state_machine_replication.py \
          --transport tcp --processes-per-worker 4 --verify-replay
"""

from __future__ import annotations

import argparse
import random
from collections.abc import Mapping, Sequence
from typing import Any

from repro.adversary import RandomOmissionAdversary, SilenceAdversary
from repro.harness import ExecutionConfig, execute
from repro.params import ProtocolParams
from repro.transport import available_transports

N_REPLICAS = 36
N_SLOTS = 4
VALUE_BITS = 6

OPS = ("SET", "INC", "DEL", "NOP")

ADVERSARIES = ("alternate", "silence", "random", "none")


def encode(op: str, key: int, value: int) -> int:
    return (OPS.index(op) << 4) | (key << 2) | value


def decode(command: int) -> tuple[str, int, int]:
    return OPS[(command >> 4) & 3], (command >> 2) & 3, command & 3


def apply_command(store: dict[int, int], command: int) -> None:
    op, key, value = decode(command)
    if op == "SET":
        store[key] = value
    elif op == "INC":
        store[key] = store.get(key, 0) + value
    elif op == "DEL":
        store.pop(key, None)
    # NOP: nothing.


def _slot_adversary(kind: str, slot: int, n: int, t: int, rng: random.Random):
    if kind == "none":
        return None
    if kind == "silence" or (kind == "alternate" and slot % 2 == 0):
        return SilenceAdversary(rng.sample(range(n), t))
    return RandomOmissionAdversary(0.8, seed=slot)


def run_service(
    n_replicas: int = N_REPLICAS,
    n_slots: int = N_SLOTS,
    *,
    transport: str | None = None,
    transport_options: Mapping[str, Any] | None = None,
    seed: int = 77,
    adversary: str = "alternate",
    verify_replay: bool = False,
    quiet: bool = False,
) -> dict[str, Any]:
    """Drive the replicated KV store for ``n_slots`` consensus instances.

    Returns a JSON-safe summary: per-slot decisions and rounds, the final
    store, and replay verdicts (when ``verify_replay``).
    """
    if adversary not in ADVERSARIES:
        raise ValueError(
            f"unknown adversary {adversary!r}; choose from {ADVERSARIES}"
        )
    params = ProtocolParams.practical()
    t = params.max_faults(n_replicas)
    rng = random.Random(seed)
    stores: dict[int, dict[int, int]] = {
        pid: {} for pid in range(n_replicas)
    }
    ever_faulty: set[int] = set()
    slots: list[dict[str, Any]] = []

    def say(text: str) -> None:
        if not quiet:
            print(text)

    say(
        f"replicated KV store on {n_replicas} replicas "
        f"(t = {t} omission-faulty per slot, "
        f"transport = {transport or 'inprocess'})\n"
    )

    for slot in range(n_slots):
        # Every replica proposes its own pending command.
        # The bit-prefix reduction anchors to the *smallest* matching
        # input, so decisions skew low; proposals avoid the all-zero
        # command to keep the demo informative.
        proposals = [
            encode(
                rng.choice(OPS[:3]),
                rng.randrange(4),
                rng.randrange(1, 4),
            )
            for _ in range(n_replicas)
        ]
        slot_adversary = _slot_adversary(adversary, slot, n_replicas, t, rng)
        # Each log slot is one consensus instance through the unified
        # harness entry point; any registered protocol, adversary or
        # transport slots in without touching the replication loop.
        slot_record: dict[str, Any] = {"slot": slot}
        if verify_replay:
            from repro.replay import record, replay

            config = ExecutionConfig(
                "multivalued",
                proposals,
                t=t,
                params=params,
                seed=500 + slot,
                options={"value_bits": VALUE_BITS},
                transport=transport,
                transport_options=transport_options,
            )
            recorded = record(
                config, slot_adversary, note=f"SMR service slot {slot}"
            )
            if recorded.failed:
                raise AssertionError(
                    f"slot {slot} tripped an invariant: {recorded.failure}"
                )
            assert recorded.run is not None
            result = recorded.run.result
            report = replay(recorded.recipe)
            assert report.matches, (
                f"slot {slot}: in-process replay of the "
                f"{recorded.recipe.config.transport}-recorded recipe diverged: "
                f"{report.summary()}"
            )
            slot_record["replay"] = report.summary()
        else:
            result = execute(
                "multivalued",
                proposals,
                value_bits=VALUE_BITS,
                t=t,
                adversary=slot_adversary,
                params=params,
                seed=500 + slot,
                transport=transport,
                transport_options=transport_options,
            ).result
        decided = result.agreement_value()
        ever_faulty |= set(result.faulty)
        op, key, value = decode(decided)
        say(
            f"slot {slot}: {len(set(proposals))} distinct proposals -> "
            f"decided {decided} = {op} k{key} {value}  "
            f"({result.time_to_agreement()} rounds)"
            + ("  [replay verified]" if verify_replay else "")
        )
        assert decided in proposals, "strong validity: decided a real command"
        for pid in range(n_replicas):
            if pid not in result.faulty:
                apply_command(stores[pid], decided)
        slot_record.update(
            decided=decided,
            command=f"{op} k{key} {value}",
            rounds=result.time_to_agreement(),
            faulty=sorted(result.faulty),
        )
        slots.append(slot_record)

    reference = None
    for pid, store in stores.items():
        if pid in ever_faulty:
            continue
        if reference is None:
            reference = store
        assert store == reference, f"store divergence at replica {pid}"
    say(f"\nall always-correct replicas hold the same store: {reference}")

    return {
        "replicas": n_replicas,
        "t": t,
        "transport": transport or "inprocess",
        "adversary": adversary,
        "slots": slots,
        "store": {str(k): v for k, v in (reference or {}).items()},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="replicated KV-store service on multi-valued consensus"
    )
    parser.add_argument("--replicas", type=int, default=N_REPLICAS)
    parser.add_argument("--slots", type=int, default=N_SLOTS)
    parser.add_argument(
        "--transport", default=None, choices=list(available_transports()),
        help="where replicas execute (default: in-process)",
    )
    parser.add_argument(
        "--processes-per-worker", type=int, default=None, metavar="K",
        help="TCP transport: replicas hosted per OS worker process",
    )
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument(
        "--adversary", default="alternate", choices=list(ADVERSARIES)
    )
    parser.add_argument(
        "--verify-replay", action="store_true",
        help="record every slot and assert it replays in-process to the "
        "identical fingerprint",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    transport_options: dict[str, Any] = {}
    if args.processes_per_worker is not None:
        if args.transport != "tcp":
            raise SystemExit("--processes-per-worker requires --transport tcp")
        transport_options["processes_per_worker"] = args.processes_per_worker
    run_service(
        args.replicas,
        args.slots,
        transport=args.transport,
        transport_options=transport_options or None,
        seed=args.seed,
        adversary=args.adversary,
        verify_replay=args.verify_replay,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
