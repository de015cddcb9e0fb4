"""Hash-chained block store and multiversion world state, one per run.

Digests are truncated blake2b over a canonical byte encoding: stable across
processes and platforms, collision-safe at simulation scale. Cryptographic
strength is irrelevant here (no adversaries), only determinism matters.

State values are signed 64-bit integers keyed by short strings such as
"cust/17/checking". A version is the (block height, txn index) pair that last
wrote the key; comparison is lexicographic.

A Chain is the run's one record of blocks, block hashes and committed state.
Its genesis state is a read-only rule (smallbank.Genesis) that stores
nothing per key; the chain stores only the entries that blocks write.
A Ledger is a peer's height on a chain, and reads the state as of that
height (multiversion reads: Bernstein and Goodman, "Multiversion Concurrency
Control", ACM TODS 1983), falling back to the genesis rule for a key not
written by then. The state digest hashes the rule's parameters, not its
keys. A Block carries its validation outcome, as a Fabric block carries its
transactions filter in its metadata: `flags`, one per txn, filled by the
first ledger to commit the block (committer.Peer).
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .smallbank import Genesis

Version = tuple[int, int]
Entry = tuple[int, Version]

GENESIS_PREV_HASH = "0" * 32


class ChainIntegrityError(RuntimeError):
    """Height gap, prev-hash mismatch or another block at a height: a
    simulation bug, fail fast."""


def _entry_hash(key: str, entry: Entry) -> int:
    """128-bit blake2b of key=value,height,index."""
    value, (bh, ti) = entry
    data = key.encode() + b"=" + struct.pack(">qQQ", value, bh, ti)
    return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(),
                          "big")


def _rule_hash(genesis: Genesis) -> int:
    """128-bit blake2b of the genesis rule's (n_accounts, initial_balance),
    personalised so that it is no entry's hash."""
    data = struct.pack(">Qq", genesis.n_accounts, genesis.entry[0])
    h = hashlib.blake2b(data, digest_size=16, person=b"genesis-rule")
    return int.from_bytes(h.digest(), "big")


class CutReason(enum.Enum):
    COUNT_THRESHOLD = "CountThreshold"
    TIMEOUT = "Timeout"
    SIZE_THRESHOLD = "SizeThreshold"


@dataclass(slots=True)
class ReadSet:
    """Keys read with the version observed; None marks an absent key."""

    reads: list[tuple[str, Version | None]] = field(default_factory=list)

    def key(self):
        return tuple(self.reads)


@dataclass(slots=True)
class WriteSet:
    writes: list[tuple[str, int]] = field(default_factory=list)

    def key(self):
        return tuple(self.writes)


@dataclass(slots=True)
class Block:
    height: int
    prev_hash: str
    txns: list  # ordered Envelopes
    cut_reason: CutReason
    created_at: int
    # the validation outcome, one flag per txn, filled by the first ledger
    # to commit the block
    flags: list | None = field(default=None, repr=False, compare=False)

    def txn_ids(self) -> list[str]:
        return [t.txn_id for t in self.txns]


def hash_block(block: Block) -> str:
    """Deterministic digest over (height, prev_hash, txn ids, cut_reason)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(block.height.to_bytes(8, "big"))
    h.update(block.prev_hash.encode())
    for txn_id in block.txn_ids():
        h.update(b"\x00")
        h.update(txn_id.encode())
    h.update(block.cut_reason.value.encode())
    return h.hexdigest()


@dataclass(slots=True, eq=False, repr=False)
class Chain:
    """Blocks and their hashes by height, and the committed state.

    `genesis`, if any, is the state as of height 0: a read-only rule under
    which every key of keys() reads one shared `entry`, and get(key)
    returns that entry for those keys and None for any other; the genesis
    block writes nothing. `state` maps each key written since to its newest
    (value, version) entry. `replaced[h][key]` is the entry that block h
    overwrote, kept only if it came from an earlier height, so the state as
    of any height is one walk back from the newest entry, and the genesis
    entry once the walk passes the key's first write.
    """

    blocks: list[Block] = field(default_factory=list)
    hashes: list[str] = field(default_factory=list)
    state: dict[str, Entry] = field(default_factory=dict)
    replaced: dict[int, dict[str, Entry]] = field(default_factory=dict)
    genesis: Genesis | None = None

    @property
    def height(self) -> int:
        return len(self.blocks) - 1


@dataclass(slots=True)
class Ledger:
    """A height on a chain. Two ledgers are equal when they share the chain
    and the height, and so the blocks, flags and state."""

    chain: Chain = field(default_factory=Chain)
    height: int = -1

    @property
    def tip_hash(self) -> str:
        return (self.chain.hashes[self.height] if self.height >= 0
                else GENESIS_PREV_HASH)

    @property
    def blocks(self) -> list[Block]:
        return self.chain.blocks[:self.height + 1]

    def append_block(self, block: Block) -> bool:
        """Advance to the block; return whether it was new to the chain.
        The first ledger at a height appends the block; every later one
        must bring the very block the chain holds there."""
        chain, height = self.chain, block.height
        if height != self.height + 1:
            raise ChainIntegrityError(
                f"append height {height}, expected {self.height + 1}")
        if block.prev_hash != self.tip_hash:
            raise ChainIntegrityError(f"prev_hash mismatch at height {height}")
        if not block.txns:
            raise ChainIntegrityError("blocks must carry at least one txn")
        new = height > chain.height
        if new:
            chain.blocks.append(block)
            chain.hashes.append(hash_block(block))
        elif chain.blocks[height] is not block:
            raise ChainIntegrityError(f"another block at height {height}")
        self.height = height
        return new

    def read_state(self, key: str) -> Entry | None:
        """Committed (value, version) as of this ledger's height, or None;
        absence is a normal outcome. A ledger at the chain's tip reads the
        newest entry; a key not written by this height reads its genesis
        entry."""
        chain = self.chain
        entry = chain.state.get(key)
        if self.height < chain.height:
            while entry is not None and entry[1][0] > self.height:
                entry = chain.replaced[entry[1][0]].get(key)
        if entry is None and chain.genesis is not None:
            return chain.genesis.get(key)
        return entry

    def fork(self) -> "Ledger":
        """Another ledger at this one's height on the same chain."""
        return Ledger(self.chain, self.height)

    def apply_write_set(self, ws: WriteSet, at: Version) -> None:
        """Write every (key, value) into the chain's state at version `at`."""
        state = self.chain.state
        setdefault = state.setdefault
        height = at[0]
        replaced = self.chain.replaced.setdefault(height, {})
        for key, value in ws.writes:
            entry = (value, at)
            old = setdefault(key, entry)
            if old is not entry:
                if old[1][0] < height:
                    replaced[key] = old
                state[key] = entry

    def changes(self) -> Iterator[tuple[str, Entry | None, Entry | None]]:
        """(key, genesis entry, entry as of this height) for every key the
        chain has written since genesis, either entry None where absent.
        The state as of this height is the genesis state with each such
        key's genesis entry swapped for its entry as of the height. A
        ledger at the chain's tip takes the newest entries as they are."""
        chain = self.chain
        genesis = chain.genesis
        at_tip = self.height >= chain.height
        for key, entry in chain.state.items():
            yield (key, None if genesis is None else genesis.get(key),
                   entry if at_tip else self.read_state(key))

    def state_digest(self) -> str:
        """Order-independent digest of the state as of this height, taken on
        each call: the genesis rule's hash (0 without one), XOR each key
        written since swapping its genesis entry's hash for its entry's.
        Equal states on one rule give equal digests; a rule and a chain that
        writes its state out do not. No genesis key is hashed."""
        genesis = self.chain.genesis
        acc = 0 if genesis is None else _rule_hash(genesis)
        for key, before, after in self.changes():
            for entry in (before, after):
                if entry is not None:
                    acc ^= _entry_hash(key, entry)
        return f"{acc:032x}"

    def state_items(self) -> Iterator[tuple[str, Entry]]:
        """Every (key, entry) as of this ledger's height, the genesis keys
        not written since included."""
        state = self.chain.state
        genesis = self.chain.genesis
        if genesis is not None:
            entry = genesis.entry
            for key in genesis.keys():
                if key not in state:
                    yield key, entry
        for key, _, entry in self.changes():
            if entry is not None:
                yield key, entry

    def trace_lines(self) -> Iterator[str]:
        """One JSON line per block: height, cut reason, txn ids, validity flags."""
        for block in self.blocks:
            yield json.dumps({
                "height": block.height,
                "cut_reason": block.cut_reason.value,
                "created_at_us": block.created_at,
                "txn_ids": block.txn_ids(),
                "valid": [f.value for f in block.flags],
            }, sort_keys=True)
